"""Binary checkpoint container shared by all model kinds.

Layout: magic ``DART`` (4 bytes), version u32 LE, entry count u32 LE.
Per entry: name length u16 LE, UTF-8 name, rank u8, one u32 LE per dim,
then the f32 LE payload. Everything, hyperparameters included, is stored
as a named float tensor (scalars are rank 0).
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

MAGIC = b"DART"
VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed or carries an unexpected layout."""


def rolling_period(total_steps: int) -> int:
    """Steps between rolling checkpoints of a training run."""
    return 1000 if total_steps >= 5000 else max(1, total_steps // 5)


def save(path: str, entries: dict[str, np.ndarray], version: int = VERSION) -> None:
    """Write entries atomically (temp file + rename)."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", version)
    blob += struct.pack("<I", len(entries))
    for name, arr in entries.items():
        a = np.asarray(arr, dtype=np.float32)
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CheckpointError(f"entry name too long: {name!r}")
        if a.ndim > 0xFF:
            raise CheckpointError(f"entry rank too large: {name!r}")
        blob += struct.pack("<H", len(raw))
        blob += raw
        blob += struct.pack("<B", a.ndim)
        for d in a.shape:
            blob += struct.pack("<I", d)
        blob += a.tobytes(order="C")
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (count,) = struct.unpack_from("<I", data, 8)
    off = 12
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off:off + nlen].decode("utf-8")
        off += nlen
        rank = data[off]
        off += 1
        dims = struct.unpack_from(f"<{rank}I", data, off) if rank else ()
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
        entries[name] = arr.copy()
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last entry")
    return entries
