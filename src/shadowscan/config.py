"""Model hyperparameters shared by the CLI, the checkpoint format and tests."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, ShapeError


@dataclass
class ModelConfig:
    """Desk-scale defaults; every field is overridable via config file or flags.

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

    def validate(self) -> "ModelConfig":
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.state_dim < 1:
            raise ConfigError(f"state_dim must be >= 1, got {self.state_dim}")
        if self.expansion < 1:
            raise ConfigError(f"expansion must be >= 1, got {self.expansion}")
        if self.unet_depth < 0:
            raise ConfigError(f"unet_depth must be >= 0, got {self.unet_depth}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        return self

    def spatial_divisor(self) -> int:
        # the dual-scale fusion needs one halving even at depth 0
        return 2 ** max(self.unet_depth, 1)

    def check_spatial(self, height: int, width: int) -> None:
        div = self.spatial_divisor()
        if height % div or width % div or height < div or width < div:
            raise ShapeError(
                f"input {height}x{width} must be divisible by {div} for unet_depth={self.unet_depth}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(values) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in values:
                continue
            raw = values[f.name]
            if f.name == "residual_output":
                kwargs[f.name] = _parse_bool(raw)
                continue
            parse, kind = (float, "a number") if f.name in ("tau", "dropout") else (int, "an integer")
            try:
                kwargs[f.name] = parse(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{f.name} must be {kind}, got {raw!r}") from None
        return cls(**kwargs).validate()


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")
