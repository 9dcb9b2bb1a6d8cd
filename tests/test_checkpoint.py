"""Checkpoint manifest and blob: round trips, rejection of mismatches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowscan.blocks import ShadowNet
from shadowscan.checkpoint import (
    load_checkpoint,
    model_from_checkpoint,
    restore_model,
    save_checkpoint,
)
from shadowscan.config import ModelConfig
from shadowscan.errors import ValidationError

_CFG = ModelConfig(channels=2, state_dim=2, expansion=2, unet_depth=1, patch_size=2, seed=5)


def _fixture():
    rng = np.random.default_rng(6)
    image = rng.uniform(0.0, 1.0, size=(3, 8, 8))
    mask = np.zeros((8, 8))
    mask[2:6, 3:7] = 1.0
    return image, mask


def test_save_load_round_trip(tmp_path):
    model = ShadowNet(_CFG)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    config, arrays = load_checkpoint(path)
    assert config == _CFG
    named = dict(model.named_params())
    assert set(arrays) == set(named)
    for name, tensor in named.items():
        assert np.array_equal(arrays[name], tensor.data)


def test_restore_overwrites_mutated_params(tmp_path):
    model = ShadowNet(_CFG)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    saved = {n: t.data.copy() for n, t in model.named_params()}
    for _, tensor in model.named_params():
        tensor.data += 0.25
    _, arrays = load_checkpoint(path)
    restore_model(model, arrays)
    for name, tensor in model.named_params():
        assert np.array_equal(tensor.data, saved[name])


def test_model_from_checkpoint_reproduces_forward(tmp_path):
    image, mask = _fixture()
    model = ShadowNet(_CFG)
    for _, tensor in model.named_params():
        tensor.data += np.random.default_rng(7).normal(0.0, 0.01, size=tensor.data.shape)
    want = model.forward(image, mask).data
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    again = model_from_checkpoint(path)
    assert np.array_equal(again.forward(image, mask).data, want)


def test_restore_rejects_name_and_shape_mismatches(tmp_path):
    model = ShadowNet(_CFG)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    _, arrays = load_checkpoint(path)
    missing = dict(arrays)
    missing.pop("dec_b")
    with pytest.raises(ValidationError):
        restore_model(model, missing)
    extra = dict(arrays)
    extra["ghost"] = np.zeros(3)
    with pytest.raises(ValidationError):
        restore_model(model, extra)
    wrong = dict(arrays)
    wrong["dec_b"] = np.zeros(4)
    with pytest.raises(ValidationError):
        restore_model(model, wrong)


def test_load_rejects_corruption(tmp_path):
    model = ShadowNet(_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    data = path.read_bytes()

    bad_magic = tmp_path / "bad1.ckpt"
    bad_magic.write_bytes(b"NOT A CKPT\n" + data)
    with pytest.raises(ValidationError):
        load_checkpoint(str(bad_magic))

    truncated = tmp_path / "bad2.ckpt"
    truncated.write_bytes(data[:-16])
    with pytest.raises(ValidationError):
        load_checkpoint(str(truncated))

    junk_line = tmp_path / "bad3.ckpt"
    head, _, rest = data.partition(b"\nconfig ")
    junk_line.write_bytes(head + b"\njunk here\nconfig " + rest)
    with pytest.raises(ValidationError):
        load_checkpoint(str(junk_line))


def test_save_is_deterministic(tmp_path):
    model = ShadowNet(_CFG)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(a), model)
    save_checkpoint(str(b), model)
    assert a.read_bytes() == b.read_bytes()


def _saved_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ShadowNet(_CFG))
    return path.read_bytes()


def test_load_rejects_malformed_manifest_fields(tmp_path):
    data = _saved_bytes(tmp_path)
    first_param = data[data.index(b"\nparam ") : data.index(b"\n", data.index(b"\nparam ") + 1)]
    path = tmp_path / "bad.ckpt"
    for old, new in [
        (b"\nblob ", first_param + b"\nblob "),  # the same name twice
        (b" 0\nparam ", b" 0x\nparam "),  # offset is not an integer
        (b"\nblob ", b" 7\nblob "),  # five fields on a param line
        (b"\nblob ", b"\nblob 1 2\nblob "),  # two sizes on the blob line
        (b"\nparam ", b"\nparam a 2x-1 0\nparam "),  # negative dimension
        (b"\nparam ", b"\nparam a 2xq 0\nparam "),  # non-integer dimension
        (b"\nblob ", b"\nblob -"),  # negative blob size
    ]:
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ValidationError):
            load_checkpoint(str(path))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_checkpoint_fuzz_loads_or_raises_validation_error(tmp_path_factory, data):
    raw = bytearray(_saved_bytes(tmp_path_factory.mktemp("ckpt")))
    manifest_end = raw.index(b"\nblob ") + 16
    # most flips land in the manifest, where the parser has work to do
    offset = st.one_of(st.integers(0, manifest_end), st.integers(0, len(raw) - 1))
    for at, value in data.draw(st.lists(st.tuples(offset, st.integers(0, 255)), max_size=4)):
        raw[at] = value
    raw = raw[: data.draw(st.integers(0, len(raw)))]
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(str(path))
    except ValidationError:
        pass
