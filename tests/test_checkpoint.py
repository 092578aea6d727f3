"""Checkpoint container: bit-exact round trips, corruption rejection, and
pipeline-order lineage enforcement."""

import hashlib

import numpy as np
import pytest

from flowcache.autodiff import ParameterSet
from flowcache.checkpoint import (Checkpoint, Stage, load_checkpoint,
                                  save_checkpoint, verify_parent)
from flowcache.errors import (CheckpointError, CorruptCheckpointError,
                              LineageError, UnsupportedVersionError)

_PARENT_OFFSET = 9  # magic (4) + version (4) + stage (1)
_CONFIG_OFFSET = 46  # + parent (1) + parent digest (32) + config length (4)


def sample_params(rng):
    return ParameterSet({
        "w1": rng.standard_normal((3, 4)),
        "b1": rng.standard_normal(4),
        "scalarish": rng.standard_normal(1),
    })


def test_roundtrip_bit_exact(tmp_path, rng):
    params = sample_params(rng)
    ckpt = Checkpoint(stage=Stage.BASE_FM, params=params,
                      config={"hidden_dim": 32, "note": "x"})
    path = tmp_path / "base.fck"
    digest = save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.stage is Stage.BASE_FM
    assert loaded.config == {"hidden_dim": 32, "note": "x"}
    assert loaded.digest == digest
    assert set(loaded.params.entries) == set(params.entries)
    for k in params.entries:
        assert np.array_equal(loaded.params[k], params[k])
        assert loaded.params[k].dtype == np.float64


def test_truncated_file_rejected(tmp_path, rng):
    path = tmp_path / "c.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=sample_params(rng)))
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_flipped_byte_rejected(tmp_path, rng):
    path = tmp_path / "c.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=sample_params(rng)))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError, match="digest"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path, rng):
    path = tmp_path / "c.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=sample_params(rng)))
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version field, first byte
    # recompute trailing digest so only the version check can fire
    body = bytes(blob[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


def test_out_of_order_lineage_rejected(tmp_path, rng):
    # a PREDICTOR whose recorded parent is BASE_FM skips the pipeline order
    path = tmp_path / "p.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.PREDICTOR,
                                     params=sample_params(rng),
                                     parent_stage=Stage.BASE_FM,
                                     parent_digest=b"\x01" * 32))
    with pytest.raises(LineageError):
        load_checkpoint(path)


def test_root_stage_must_be_parentless(tmp_path, rng):
    path = tmp_path / "b.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=sample_params(rng),
                                     parent_stage=Stage.MEANFLOW,
                                     parent_digest=b"\x01" * 32))
    with pytest.raises(LineageError):
        load_checkpoint(path)


def test_chain_save_load_verify(tmp_path, rng):
    base = Checkpoint(stage=Stage.BASE_FM, params=sample_params(rng))
    base_digest = save_checkpoint(tmp_path / "base.fck", base)
    child = Checkpoint(stage=Stage.CFG_DISTILLED, params=sample_params(rng),
                       parent_stage=Stage.BASE_FM, parent_digest=base_digest)
    save_checkpoint(tmp_path / "cfg.fck", child)

    loaded_base = load_checkpoint(tmp_path / "base.fck")
    loaded_child = load_checkpoint(tmp_path / "cfg.fck")
    verify_parent(loaded_child, loaded_base)

    other = Checkpoint(stage=Stage.BASE_FM, params=sample_params(rng))
    save_checkpoint(tmp_path / "other.fck", other)
    with pytest.raises(LineageError):
        verify_parent(loaded_child, load_checkpoint(tmp_path / "other.fck"))


def test_checkpoint_digest_helper(tmp_path, rng):
    path = tmp_path / "c.fck"
    digest = save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                              params=sample_params(rng)))
    assert path.read_bytes()[-32:] == digest


def test_unreadable_file_is_checkpoint_error(tmp_path):
    for path in (tmp_path / "missing.fck", tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)


def _config_bytes(new):
    def mutate(blob):
        assert blob[_CONFIG_OFFSET:_CONFIG_OFFSET + 8] == b'{"k": 1}'
        blob[_CONFIG_OFFSET:_CONFIG_OFFSET + 8] = new
    return mutate


def _parent_byte(blob):
    blob[_PARENT_OFFSET] = 7


def _name_byte(blob):
    blob[blob.index(b"scalarish")] = 0xFF


@pytest.mark.parametrize("mutate", [
    _parent_byte,
    _config_bytes(b'{"k": 1]'),
    _config_bytes(b'\xff"k": 1}'),
    _config_bytes(b'[1, 2.0]'),
    _name_byte,
], ids=["parent-stage", "config-json", "config-utf8", "config-not-object",
        "name-utf8"])
def test_resealed_corruption_rejected(tmp_path, rng, mutate):
    # the digest is recomputed after the edit, so only the check behind it
    # can reject the file
    path = tmp_path / "c.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=sample_params(rng),
                                     config={"k": 1}))
    blob = bytearray(path.read_bytes())[:-32]
    mutate(blob)
    path.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)
