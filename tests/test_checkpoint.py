import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from depthart import checkpoint
from depthart.var import VarConfig, VarModel
from depthart.vq import DEFAULT_SCHEDULE

import oracle


def test_round_trip(tmp_path):
    path = str(tmp_path / "model.dart")
    entries = {
        "enc/w1": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        "hp/codebook_size": np.float32(64.0),
        "schedule": np.array([[1, 1], [2, 2], [4, 4], [8, 8]], dtype=np.float32),
    }
    checkpoint.save(path, entries)
    back = checkpoint.load(path)
    assert set(back) == set(entries)
    for k in entries:
        assert back[k].dtype == np.float32
        assert np.array_equal(back[k], np.asarray(entries[k], dtype=np.float32))
    assert back["hp/codebook_size"].shape == ()


def test_header_layout(tmp_path):
    path = str(tmp_path / "one.dart")
    checkpoint.save(path, {"x": np.zeros((2, 2), dtype=np.float32)})
    raw = open(path, "rb").read()
    assert raw[:4] == b"DART"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == checkpoint.VERSION and count == 1
    (nlen,) = struct.unpack_from("<H", raw, 12)
    assert raw[14:14 + nlen] == b"x"
    assert raw[14 + nlen] == 2  # rank
    assert struct.unpack_from("<II", raw, 15 + nlen) == (2, 2)
    assert len(raw) == 15 + nlen + 8 + 16


def test_save_writes_the_bytes_of_the_straight_line_writer(tmp_path):
    # the default model's entries, and arrays save must convert: a scalar,
    # an empty array, a transposed view, float64 and big-endian float32
    rng = np.random.default_rng(2)
    entries = VarModel(VarConfig(schedule=DEFAULT_SCHEDULE)).to_entries() | {
        "scalar": np.float32(2.5),
        "empty": np.zeros((0, 3), np.float32),
        "transposed": rng.standard_normal((3, 5)).astype(np.float32).T,
        "float64": rng.standard_normal((2, 3)),
        "big_endian": rng.standard_normal(7).astype(">f4"),
    }
    path = tmp_path / "model.dart"
    checkpoint.save(str(path), entries)
    assert path.read_bytes() == oracle.checkpoint_bytes(entries)


def test_save_streams_each_payload(tmp_path):
    # an entry's payload goes from its array to the file: saving 8 MiB
    # allocates far less than one more copy of it
    entries = {"w": np.ones((2048, 1024), np.float32)}
    tracemalloc.start()
    try:
        checkpoint.save(str(tmp_path / "big.dart"), entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


def test_load_reads_each_payload_into_its_own_array(tmp_path):
    # an entry's payload goes from the file to its array: loading 8 MiB
    # allocates far less than one more copy of it, and the entry is a
    # writable array that owns its data, which AdamW may update in place
    path = str(tmp_path / "big.dart")
    checkpoint.save(path, {"w": np.ones((2048, 1024), np.float32)})
    tracemalloc.start()
    try:
        w = checkpoint.load(path)["w"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 2**20, f"{peak / 2**20:.2f} MiB"
    assert w.flags.writeable and w.flags.owndata
    assert w.dtype == np.float32 and np.array_equal(w, np.ones((2048, 1024), np.float32))


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.dart"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(str(p))


def test_save_is_atomic_on_overwrite(tmp_path):
    path = str(tmp_path / "m.dart")
    checkpoint.save(path, {"a": np.ones(3, dtype=np.float32)})
    checkpoint.save(path, {"a": np.full(3, 2.0, dtype=np.float32)})
    assert np.array_equal(checkpoint.load(path)["a"], np.full(3, 2.0, np.float32))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_saved_file_mode_follows_the_umask(tmp_path):
    # a checkpoint gets the mode the umask gives any new file, as the
    # manifests written beside it do
    path = tmp_path / "m.dart"
    old = os.umask(0o022)
    try:
        checkpoint.save(str(path), {"a": np.ones(3, dtype=np.float32)})
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_truncated_file_raises_checkpoint_error_at_every_offset(tmp_path):
    path = tmp_path / "m.dart"
    checkpoint.save(str(path), {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "hp/raster": np.float32(16.0),
        "é": np.ones(2, dtype=np.float32),
    })
    raw = path.read_bytes()
    cut = tmp_path / "cut.dart"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load(str(cut))


def test_malformed_entries_raise_checkpoint_error(tmp_path):
    path = tmp_path / "m.dart"
    checkpoint.save(str(path), {"ab": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:14] + b"\xff\xfe" + raw[16:])  # name is not UTF-8
    with pytest.raises(checkpoint.CheckpointError, match="UTF-8"):
        checkpoint.load(str(path))
    path.write_bytes(raw[:17] + struct.pack("<I", 2 ** 32 - 1) + raw[21:])  # huge dim
    with pytest.raises(checkpoint.CheckpointError, match="truncated"):
        checkpoint.load(str(path))


def test_entry_rejects_missing_and_misshapen_entries():
    entries = {"a": np.zeros((2, 3), np.float32)}
    assert checkpoint.entry(entries, "a", (None, 3)) is entries["a"]
    with pytest.raises(checkpoint.CheckpointError, match="no entry 'b'"):
        checkpoint.entry(entries, "b", ())
    with pytest.raises(checkpoint.CheckpointError, match="shape"):
        checkpoint.entry(entries, "a", (2, 4))
    with pytest.raises(checkpoint.CheckpointError, match="shape"):
        checkpoint.entry(entries, "a", (None,))
