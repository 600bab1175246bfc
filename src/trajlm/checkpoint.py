"""Binary model checkpoints: bit-exact round trip of parameters.

Layout (all integers little-endian):

    magic            8 bytes  b"TLMCKPT\\0"
    version          u32
    config block     u32 length + UTF-8 key=value lines (ModelConfig; lines
                     starting with '#' carry run metadata and are ignored on load)
    vocab hash       u32 length + UTF-8 hex digest ("" when not bound to a vocab)
    n_params         u32
    per parameter    u32 name length + name, u32 ndim, u64 per dim,
                     raw row-major float64 data
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointVersionError,
    CheckpointVocabError,
)
from .model import DTYPE, Model, ModelConfig, param_shapes

MAGIC = b"TLMCKPT\x00"
FORMAT_VERSION = 2


def save_checkpoint(model: Model, metadata: dict[str, str] | None = None) -> bytes:
    """Serialize the model; metadata lines are embedded as comments in the config block."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    config_text = model.config.to_text()
    for key, value in (metadata or {}).items():
        config_text += f"# {key}={value}\n"
    cfg_bytes = config_text.encode("utf-8")
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    vh = model.vocab_hash.encode("utf-8")
    buf.write(struct.pack("<I", len(vh)))
    buf.write(vh)
    buf.write(struct.pack("<I", len(model.params)))
    for name, arr in model.params.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(arr, dtype=DTYPE).tobytes())
    return buf.getvalue()


def write_checkpoint(model: Model, path, metadata: dict[str, str] | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(save_checkpoint(model, metadata))


def _read(buf: io.BytesIO, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _read_text(buf: io.BytesIO, what: str) -> str:
    """Read one u32-length-prefixed UTF-8 string."""
    (n,) = struct.unpack("<I", _read(buf, 4, f"{what} length"))
    try:
        return _read(buf, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"checkpoint {what} is not UTF-8 text ({e.reason})") from e


def load_checkpoint(data: bytes, expected_vocab_hash: str | None = None) -> Model:
    """Rebuild a Model from checkpoint bytes.

    Raises distinct errors for a bad version, a parameter whose shape does not
    match the stored config, and a vocabulary hash mismatch.
    """
    buf = io.BytesIO(data)
    if _read(buf, len(MAGIC), "magic") != MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", _read(buf, 4, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}, expected {FORMAT_VERSION}")
    config_text = _read_text(buf, "config block")
    try:
        config = ModelConfig.from_text(config_text)
    except ValueError as e:
        raise CheckpointError(f"bad checkpoint config block: {e}") from e
    vocab_hash = _read_text(buf, "vocab hash")
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise CheckpointVocabError(
            f"checkpoint was trained with vocab {vocab_hash[:12]}..., "
            f"got vocab {expected_vocab_hash[:12]}...; refusing to score"
        )
    (n_params,) = struct.unpack("<I", _read(buf, 4, "parameter count"))
    expected = param_shapes(config)
    if n_params != len(expected):
        raise CheckpointShapeError(f"checkpoint has {n_params} parameters, config implies {len(expected)}")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        name = _read_text(buf, "parameter name")
        if name not in expected:
            raise CheckpointShapeError(f"unexpected parameter {name!r}")
        (ndim,) = struct.unpack("<I", _read(buf, 4, f"{name} ndim"))
        shape = tuple(struct.unpack("<Q", _read(buf, 8, f"{name} dim"))[0] for _ in range(ndim))
        if shape != expected[name]:
            raise CheckpointShapeError(f"parameter {name!r} has shape {shape}, expected {expected[name]}")
        n_bytes = int(np.prod(shape, dtype=np.int64)) * DTYPE.itemsize
        arr = np.frombuffer(_read(buf, n_bytes, f"{name} data"), dtype=DTYPE).reshape(shape)
        params[name] = arr.copy()
    if buf.read(1):
        raise CheckpointError("trailing bytes after final parameter record")
    ordered = {name: params[name] for name in expected}
    return Model(config, ordered, vocab_hash)


def read_checkpoint(path, expected_vocab_hash: str | None = None) -> Model:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read(), expected_vocab_hash)
