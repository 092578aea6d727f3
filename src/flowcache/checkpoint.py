"""Versioned binary checkpoints with lineage verification.

Layout (all integers little-endian):

    magic      4 bytes  b"FCK1"
    version    u32      format version (currently 1)
    stage      u8       Stage enum value
    parent     u8       parent Stage value, 255 when none
    pdigest    32 bytes sha256 of the parent checkpoint file (zeros if none)
    conf_len   u32      length of the config snapshot
    config     bytes    UTF-8 JSON snapshot, keys sorted (see below)
    n_tensors  u32
    per tensor (name-sorted):
        name_len u16, name bytes (UTF-8), rank u8, extents u32 * rank,
        data float64 raw (row-major)
    digest     32 bytes sha256 of everything above

A checkpoint's identity is its trailing digest; children record it as
pdigest. The pipeline order BASE_FM -> CFG_DISTILLED -> MEANFLOW ->
PREDICTOR is enforced at load time from the recorded parent stage and may
be re-verified against an actual parent file.

The snapshot holds every file's `velocity` network config and the
`distribution` train-base learned, which each child copies from its
parent; cfg.fck adds its `cfg` g range, meanflow.fck `restrict`, and
predictor.fck its `predictor` config and `delta_max`. The runner writes
each child with the stage and digest of the parent it loaded, and checks
snapshot entries and tensors as it reads (exit 3 too).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .autodiff import ParameterSet
from .errors import (CheckpointError, CorruptCheckpointError, LineageError,
                     UnsupportedVersionError)

MAGIC = b"FCK1"
FORMAT_VERSION = 1
_NO_PARENT = 255
_ZERO_DIGEST = b"\x00" * 32


class Stage(IntEnum):
    BASE_FM = 0
    CFG_DISTILLED = 1
    MEANFLOW = 2
    PREDICTOR = 3


EXPECTED_PARENT: dict[Stage, Stage | None] = {
    Stage.BASE_FM: None,
    Stage.CFG_DISTILLED: Stage.BASE_FM,
    Stage.MEANFLOW: Stage.CFG_DISTILLED,
    Stage.PREDICTOR: Stage.MEANFLOW,
}


@dataclass
class Checkpoint:
    stage: Stage
    params: ParameterSet
    config: dict = field(default_factory=dict)
    parent_stage: Stage | None = None
    parent_digest: bytes = _ZERO_DIGEST
    digest: bytes | None = None  # filled on save/load


def _encode(ckpt: Checkpoint) -> bytes:
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION),
             struct.pack("<B", int(ckpt.stage)),
             struct.pack("<B", _NO_PARENT if ckpt.parent_stage is None
                         else int(ckpt.parent_stage)),
             ckpt.parent_digest]
    config_bytes = json.dumps(ckpt.config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    names = sorted(ckpt.params.entries)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        tensor = np.ascontiguousarray(ckpt.params.entries[name], dtype="<f8")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", tensor.ndim))
        for extent in tensor.shape:
            parts.append(struct.pack("<I", extent))
        parts.append(tensor.tobytes())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def save_checkpoint(path, ckpt: Checkpoint) -> bytes:
    """Write the checkpoint; returns its digest (the file's identity)."""
    blob = _encode(ckpt)
    Path(path).write_bytes(blob)
    ckpt.digest = blob[-32:]
    return ckpt.digest


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CorruptCheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> Checkpoint:
    """Read and fully verify a checkpoint (digest, magic, version, stages)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    if len(blob) < len(MAGIC) + 4 + 1 + 1 + 32 + 4 + 4 + 32:
        raise CorruptCheckpointError(f"{path}: truncated checkpoint")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpointError(
            f"{path}: digest mismatch (expected {digest.hex()[:12]}..., "
            f"file computes {hashlib.sha256(body).hexdigest()[:12]}...)")
    r = _Reader(body, path)
    if r.take(4) != MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format_version {version} unsupported (have {FORMAT_VERSION})")
    try:
        stage = Stage(r.u8())
    except ValueError as exc:
        raise CorruptCheckpointError(f"{path}: unknown stage byte") from exc
    parent_raw = r.u8()
    try:
        parent_stage = None if parent_raw == _NO_PARENT else Stage(parent_raw)
    except ValueError as exc:
        raise CorruptCheckpointError(
            f"{path}: unknown parent stage byte {parent_raw}") from exc
    parent_digest = r.take(32)
    try:
        config = json.loads(r.take(r.u32()).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorruptCheckpointError(
            f"{path}: config snapshot is not UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CorruptCheckpointError(
            f"{path}: config snapshot is not a JSON object")
    entries = {}
    for _ in range(r.u32()):
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(
                f"{path}: tensor name is not UTF-8") from exc
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        data = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").copy()
        entries[name] = data.reshape(shape)
    if r.off != len(body):
        raise CorruptCheckpointError(f"{path}: trailing bytes after tensors")

    ckpt = Checkpoint(stage=stage, params=ParameterSet(entries), config=config,
                      parent_stage=parent_stage, parent_digest=parent_digest,
                      digest=digest)
    _check_stage_order(ckpt, path)
    return ckpt


def _check_stage_order(ckpt: Checkpoint, path):
    expected = EXPECTED_PARENT[ckpt.stage]
    if expected is None:
        if ckpt.parent_stage is not None:
            raise LineageError(
                f"{path}: stage {ckpt.stage.name} must have no parent, "
                f"found {ckpt.parent_stage.name}")
    elif ckpt.parent_stage != expected:
        found = "none" if ckpt.parent_stage is None else ckpt.parent_stage.name
        raise LineageError(
            f"{path}: stage {ckpt.stage.name} requires parent "
            f"{expected.name}, found {found}")


def verify_parent(child: Checkpoint, parent: Checkpoint, child_path="child"):
    """Check that `parent` really is the checkpoint `child` was built from."""
    if child.parent_digest != parent.digest:
        raise LineageError(
            f"{child_path}: recorded parent digest does not match the "
            f"supplied {parent.stage.name} checkpoint")
    if child.parent_stage != parent.stage:
        raise LineageError(
            f"{child_path}: recorded parent stage {child.parent_stage} does "
            f"not match supplied stage {parent.stage.name}")
