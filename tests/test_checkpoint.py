import numpy as np
import pytest

from trajlm.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, read_checkpoint, save_checkpoint, write_checkpoint
from trajlm.errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointVersionError,
    CheckpointVocabError,
)
from trajlm.model import ModelConfig, init_model

CFG = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=6, seed=4)


def test_round_trip_bit_exact():
    m = init_model(CFG, vocab_hash="abc123")
    loaded = load_checkpoint(save_checkpoint(m))
    assert loaded.config == m.config
    assert loaded.vocab_hash == "abc123"
    assert set(loaded.params) == set(m.params)
    for k in m.params:
        assert np.array_equal(loaded.params[k], m.params[k])
        assert loaded.params[k].dtype == m.params[k].dtype == np.float64


def test_save_is_deterministic():
    assert save_checkpoint(init_model(CFG)) == save_checkpoint(init_model(CFG))


def test_truncated_file_errors():
    data = save_checkpoint(init_model(CFG))
    with pytest.raises(CheckpointError):
        load_checkpoint(data[: len(data) - 7])
    with pytest.raises(CheckpointError):
        load_checkpoint(data[:10])


def test_trailing_bytes_error():
    data = save_checkpoint(init_model(CFG))
    with pytest.raises(CheckpointError):
        load_checkpoint(data + b"\x00")


def test_bad_magic():
    data = bytearray(save_checkpoint(init_model(CFG)))
    data[0] ^= 0xFF
    with pytest.raises(CheckpointError):
        load_checkpoint(bytes(data))


def test_version_mismatch_distinct_error():
    data = bytearray(save_checkpoint(init_model(CFG)))
    offset = len(MAGIC)
    for version in (1, FORMAT_VERSION + 1):
        data[offset:offset + 4] = version.to_bytes(4, "little")
        with pytest.raises(CheckpointVersionError, match=f"version {version}, expected {FORMAT_VERSION}"):
            load_checkpoint(bytes(data))


def test_shape_mismatch_distinct_error():
    m = init_model(CFG)
    m.params["w_out"] = np.zeros((3, 3))  # disagrees with config-implied shape
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(save_checkpoint(m))


def test_vocab_hash_mismatch_refuses_to_load():
    m = init_model(CFG, vocab_hash="right")
    data = save_checkpoint(m)
    with pytest.raises(CheckpointVocabError):
        load_checkpoint(data, expected_vocab_hash="wrong")
    assert load_checkpoint(data, expected_vocab_hash="right").vocab_hash == "right"


def test_file_round_trip_with_metadata(tmp_path):
    m = init_model(CFG, vocab_hash="vh")
    path = tmp_path / "model.ckpt"
    write_checkpoint(m, path, metadata={"config_hash": "deadbeef", "tool_version": "0.1.0"})
    loaded = read_checkpoint(path, expected_vocab_hash="vh")
    assert loaded.config == m.config
    assert all(np.array_equal(loaded.params[k], m.params[k]) for k in m.params)
    assert b"deadbeef" in path.read_bytes()
