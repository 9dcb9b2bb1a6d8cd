"""Flat binary checkpoint with a text manifest.

Layout: ASCII header lines, then one raw little-endian float64 blob.

    SHADOWSCAN CKPT 1
    config <key>=<value>        (one line per model config field)
    param <name> <d0>x<d1>... <byte-offset>
    blob <total-bytes>
    <raw data>

Offsets index into the blob. The manifest (names, shapes, config) is the
compatibility contract: loading rejects any mismatch instead of guessing.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .blocks import ShadowNet
from .config import ModelConfig
from .errors import ConfigError, ValidationError

_MAGIC = b"SHADOWSCAN CKPT 1"


def save_checkpoint(path: str, model: ShadowNet) -> None:
    named = model.named_params()
    header = io.BytesIO()
    header.write(_MAGIC + b"\n")
    for key, value in model.config.to_dict().items():
        header.write(f"config {key}={value}\n".encode("ascii"))
    blob = io.BytesIO()
    for name, tensor in named:
        shape = "x".join(str(d) for d in tensor.data.shape)
        header.write(f"param {name} {shape} {blob.tell()}\n".encode("ascii"))
        blob.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    payload = blob.getvalue()
    header.write(f"blob {len(payload)}\n".encode("ascii"))
    with open(path, "wb") as f:
        f.write(header.getvalue())
        f.write(payload)


def _count(text: str, what: str) -> int:
    """A non-negative decimal integer field of the manifest."""
    if not text.isdigit():
        raise ValidationError(f"checkpoint {what} must be a non-negative integer, got {text!r}")
    return int(text)


def load_checkpoint(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        raw = f.read()
    end = raw.find(b"\n")
    if end < 0 or raw[:end] != _MAGIC:
        raise ValidationError(f"{path} is not a checkpoint (bad magic)")
    pos = end + 1
    config_values: dict[str, str] = {}
    entries: dict[str, tuple[tuple[int, ...], int]] = {}
    while True:
        end = raw.find(b"\n", pos)
        if end < 0:
            raise ValidationError("truncated checkpoint manifest")
        try:
            line = raw[pos:end].decode("ascii")
        except UnicodeDecodeError:
            raise ValidationError("checkpoint manifest holds non-ASCII bytes") from None
        pos = end + 1
        if line.startswith("config "):
            key, _, value = line[len("config ") :].partition("=")
            config_values[key] = value
        elif line.startswith("param "):
            fields = line.split(" ")
            if len(fields) != 4:
                raise ValidationError(f"param line needs name, shape and offset: {line!r}")
            _, name, shape_text, offset = fields
            if name in entries:
                raise ValidationError(f"param {name} appears twice in the manifest")
            shape = tuple(_count(d, f"dimension of {name}") for d in shape_text.split("x"))
            entries[name] = (shape, _count(offset, f"offset of {name}"))
        elif line.startswith("blob "):
            fields = line.split(" ")
            if len(fields) != 2:
                raise ValidationError(f"blob line needs exactly one size: {line!r}")
            blob_size = _count(fields[1], "blob size")
            break
        else:
            raise ValidationError(f"bad manifest line: {line!r}")
    blob = raw[pos:]
    if len(blob) != blob_size:
        raise ValidationError(f"checkpoint blob has {len(blob)} bytes, manifest promises {blob_size}")
    arrays: dict[str, np.ndarray] = {}
    covered_to, last = 0, None
    for name, (shape, offset) in sorted(entries.items(), key=lambda item: item[1][1]):
        count = math.prod(shape)
        if offset + 8 * count > blob_size:
            raise ValidationError(f"param {name} runs past the end of the {blob_size}-byte blob")
        if count:
            if offset < covered_to:
                raise ValidationError(f"params {last} and {name} overlap in the blob")
            covered_to, last = offset + 8 * count, name
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
    try:
        config = ModelConfig.from_dict(config_values)
    except ConfigError as exc:
        raise ValidationError(f"checkpoint config: {exc}") from None
    return config, arrays


def restore_model(model: ShadowNet, arrays: dict[str, np.ndarray]) -> None:
    named = dict(model.named_params())
    if set(named) != set(arrays):
        missing = sorted(set(named) - set(arrays))
        extra = sorted(set(arrays) - set(named))
        raise ValidationError(f"parameter names disagree (missing {missing}, extra {extra})")
    for name, tensor in named.items():
        if tensor.data.shape != arrays[name].shape:
            raise ValidationError(
                f"shape mismatch for {name}: model {tensor.data.shape} vs checkpoint {arrays[name].shape}"
            )
        tensor.data[...] = arrays[name]


def model_from_checkpoint(path: str) -> ShadowNet:
    config, arrays = load_checkpoint(path)
    model = ShadowNet(config)
    restore_model(model, arrays)
    return model
