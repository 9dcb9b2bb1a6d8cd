"""Model hyperparameters shared by the CLI, the checkpoint format and tests."""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import InputError

# each UNet level halves the image, so sides must be multiples of
# 2**unet_depth; at 16 that is 65,536 px, past any image this model can hold
MAX_UNET_DEPTH = 16


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale defaults; every field is overridable via config file or flags.

    A config checks its ranges once, when it is built, and cannot change
    afterwards, so every holder can rely on the values without checking
    them again.

    ``unet_depth`` defaults to 1 so toy training stays in single-core
    budgets; the full-scale architecture uses depth 4 and is reachable
    through configuration alone.
    """

    channels: int = 8
    state_dim: int = 8
    expansion: int = 2
    unet_depth: int = 1
    patch_size: int = 8
    tau: float = 0.5
    dropout: float = 0.0
    residual_output: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise InputError(f"channels must be >= 1, got {self.channels}")
        if self.state_dim < 1:
            raise InputError(f"state_dim must be >= 1, got {self.state_dim}")
        if self.expansion < 1:
            raise InputError(f"expansion must be >= 1, got {self.expansion}")
        if not 0 <= self.unet_depth <= MAX_UNET_DEPTH:
            raise InputError(f"unet_depth must lie in [0, {MAX_UNET_DEPTH}], got {self.unet_depth}")
        if self.patch_size < 1:
            raise InputError(f"patch_size must be >= 1, got {self.patch_size}")
        if not 0.0 < self.tau <= 1.0:
            raise InputError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        """Parse each value by its field's type (flags, config files and checkpoints alike)."""
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        parsed = {f.name: _PARSERS[f.type](f.name, values[f.name]) for f in fields(cls) if f.name in values}
        return cls(**parsed)


def _parse_int(name: str, raw) -> int:
    # int() would also take "1_6", "+4" and non-ASCII digits
    if not re.fullmatch(r"-?[0-9]+", str(raw)):
        raise InputError(f"{name} must be an integer, got {raw!r}")
    return int(raw)


def _parse_float(name: str, raw) -> float:
    text = str(raw)
    # float() would also take "1_0", surrounding whitespace and non-ASCII digits
    if text.isascii() and not any(ch == "_" or ch.isspace() for ch in text):
        try:
            return float(text)
        except ValueError:
            pass
    raise InputError(f"{name} must be a number, got {raw!r}")


def _parse_bool(name: str, raw) -> bool:
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise InputError(f"{name} must be a boolean, got {raw!r}")


# keyed by the field annotations, which stay strings under `from __future__ import annotations`
_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool}
