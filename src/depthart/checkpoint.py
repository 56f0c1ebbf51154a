"""Binary checkpoint container for models and dataset samples.

Layout: magic ``DART`` (4 bytes), version u32 LE, entry count u32 LE.
Per entry: name length u16 LE, UTF-8 name, rank u8, one u32 LE per dim,
then the f32 LE payload. Everything, hyperparameters included, is stored
as a named float tensor (scalars are rank 0).

A training run writes its loss curve beside its checkpoints, as CSV
``step,loss,lr``, even when it stops early (``write_loss_curve``).
"""

from __future__ import annotations

import csv
import math
import os
import struct
import tempfile
from typing import Callable, Optional

import numpy as np

MAGIC = b"DART"
VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed or carries an unexpected layout."""


def rolling_period(total_steps: int) -> int:
    """Steps between rolling checkpoints of a training run."""
    return 1000 if total_steps >= 5000 else max(1, total_steps // 5)


def write_loss_curve(path: str, curve: list[tuple[int, float, float]]) -> None:
    """Write curve rows (step, loss, lr) as CSV with header ``step,loss,lr``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "loss", "lr"])
        for step, loss, lr in curve:
            w.writerow([step, repr(float(loss)), repr(float(lr))])


def save(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write entries atomically (temp file + rename)."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
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
    """Read every entry; any malformed or truncated file raises CheckpointError."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated at byte {len(data)} "
                                  f"(needs {off + n})")
        off += n
        return data[off - n:off]

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: entry name is not UTF-8") from e
        rank = take(1)[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        raw = take(4 * math.prod(dims))
        entries[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last entry")
    return entries


def entry(entries: dict[str, np.ndarray], name: str,
         shape: tuple[Optional[int], ...]) -> np.ndarray:
    """Entry ``name`` of a loaded checkpoint, checked against ``shape``
    (None matches any extent); CheckpointError if missing or misshapen."""
    arr = entries.get(name)
    if arr is None:
        raise CheckpointError(f"checkpoint has no entry {name!r}")
    if len(arr.shape) != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, arr.shape)):
        raise CheckpointError(
            f"checkpoint entry {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def finite_entry(entries: dict[str, np.ndarray], name: str,
                 shape: tuple[Optional[int], ...]) -> np.ndarray:
    """``entry``, also raising CheckpointError if a value is not finite.
    ``entry`` itself cannot check this: some entries hold other bytes
    viewed as float32 (a dataset sample's float64 plane parameters)."""
    arr = entry(entries, name, shape)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint entry {name!r} holds a non-finite value")
    return arr


def count_entry(entries: dict[str, np.ndarray], name: str,
                shape: tuple[Optional[int], ...]) -> np.ndarray:
    """``finite_entry`` as int64, also raising CheckpointError unless every
    value is a positive whole number (hyperparameters, scale extents)."""
    arr = finite_entry(entries, name, shape)
    if not ((arr >= 1) & (arr == np.floor(arr))).all():
        raise CheckpointError(
            f"checkpoint entry {name!r} must hold positive whole numbers")
    return arr.astype(np.int64)


def parameter(entries: Optional[dict[str, np.ndarray]], name: str, shape: tuple[int, ...],
              draw: Callable[[tuple[int, ...]], np.ndarray]) -> np.ndarray:
    """``draw(shape)`` or, given ``entries`` (a loaded checkpoint), its entry
    ``name`` checked against ``shape`` and for finite values, drawing nothing."""
    return draw(shape) if entries is None else finite_entry(entries, name, shape)


def only_entries(entries: dict[str, np.ndarray], written: dict[str, np.ndarray]) -> None:
    """CheckpointError naming the first entry not in ``written``, what its model saves."""
    for name in entries:
        if name not in written:
            raise CheckpointError(f"checkpoint entry {name!r} is not read by its model")
